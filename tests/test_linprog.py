import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from lyapcert import linprog
from lyapcert.linprog import (EQ, GE, LE, LinearProgram, dump_lp_text, solve)


def box_lp():
    return LinearProgram(objective=[1.0, 1.0], A=[[1.0, 0.0], [0.0, 1.0]],
                         relations=[LE, LE], b=[1.0, 2.0],
                         bounds=[(0, None), (0, None)])


def random_instance(rng):
    A = rng.uniform(0.1, 1.0, size=(5, 8))
    b = rng.uniform(1.0, 2.0, size=5)
    c = rng.uniform(-1.0, 1.0, size=8)
    return LinearProgram(objective=c, A=A, relations=[LE] * 5, b=b,
                         bounds=[(0, None)] * 8)


def enumerate_vertices_best(lp):
    """Brute-force vertex enumeration over rows [A; -I] for x >= 0 feeds."""
    A = np.vstack([lp.A, -np.eye(lp.A.shape[1])])
    rhs = np.concatenate([lp.b, np.zeros(lp.A.shape[1])])
    n = lp.A.shape[1]
    best = -np.inf
    for combo in combinations(range(len(rhs)), n):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, rhs[list(combo)])
        if (A @ v <= rhs + 1e-9).all():
            best = max(best, float(lp.objective @ v))
    return best


def test_simple_box_maximum():
    result = solve(box_lp())
    assert result.status == "optimal"
    assert abs(result.value - 3.0) <= 1e-9
    assert np.allclose(result.x, [1.0, 2.0])


def test_trivial_infeasible_status():
    lp = LinearProgram(objective=[1.0], A=[[1.0], [1.0]], relations=[GE, LE],
                       b=[1.0, 0.0])
    assert solve(lp).status == "infeasible"


def test_unbounded_status():
    lp = LinearProgram(objective=[1.0, 0.0], A=[[1.0, 0.0]], relations=[GE],
                       b=[0.0])
    assert solve(lp).status == "unbounded"


def test_equality_rows_and_negative_rhs():
    lp = LinearProgram(objective=[2.0, 3.0], A=[[1.0, 1.0], [1.0, -1.0]],
                       relations=[EQ, GE], b=[4.0, -6.0],
                       bounds=[(0, None), (0, None)])
    result = solve(lp)
    assert result.status == "optimal"
    assert abs(result.value - 12.0) <= 1e-9
    assert np.allclose(result.x, [0.0, 4.0])


def test_minimize_sense():
    lp = LinearProgram(objective=[1.0], A=[[1.0]], relations=[GE], b=[2.0],
                       maximize=False)
    result = solve(lp)
    assert result.status == "optimal"
    assert abs(result.value - 2.0) <= 1e-9


def test_free_variables_default():
    lp = LinearProgram(objective=[1.0, -1.0], A=[[1.0, 1.0], [1.0, -1.0]],
                       relations=[LE, LE], b=[1.0, 3.0])
    # maximize x1 - x2 over the wedge: optimum at x1 + x2 = 1, x1 - x2 = 3
    result = solve(lp)
    assert result.status == "optimal"
    assert abs(result.value - 3.0) <= 1e-8
    assert np.allclose(result.x, [2.0, -1.0], atol=1e-8)


def test_random_instances_against_vertex_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(40):
        lp = random_instance(rng)
        result = solve(lp)
        assert result.status == "optimal"
        assert abs(result.value - enumerate_vertices_best(lp)) <= 1e-7


def test_feasibility_of_optimal_points():
    rng = np.random.default_rng(32)
    for _ in range(20):
        lp = random_instance(rng)
        result = solve(lp)
        assert (lp.A @ result.x <= lp.b + 1e-8).all()
        assert result.x.min() >= -1e-8


def test_ge_rows_and_minimize_against_vertex_enumeration():
    # the same feasible set written with >= rows and a minimized objective
    rng = np.random.default_rng(33)
    for _ in range(30):
        lp = random_instance(rng)
        flipped = LinearProgram(objective=-lp.objective, A=-lp.A,
                                relations=[GE] * len(lp.b), b=-lp.b,
                                bounds=lp.bounds, maximize=False)
        result = solve(flipped)
        assert result.status == "optimal"
        assert abs(-result.value - enumerate_vertices_best(lp)) <= 1e-7


def test_determinism_bytes_in_bytes_out():
    rng = np.random.default_rng(34)
    lp = random_instance(rng)
    a = solve(lp)
    b = solve(lp)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.value == b.value


def test_recheck_rejects_points_outside_feas_tol(monkeypatch):
    import scipy.optimize
    from scipy.optimize import OptimizeResult

    def slightly_infeasible(*args, **kwargs):
        return OptimizeResult(status=0, x=np.array([1.0 + 1e-6, 2.0]), nit=3)

    monkeypatch.setattr(scipy.optimize, "linprog", slightly_infeasible)
    result = solve(box_lp())
    assert result.status == "stalled"
    assert result.pivots == 3
    monkeypatch.setattr(linprog, "FEAS_TOL", 1e-5)
    assert solve(box_lp()).status == "optimal"


def test_cone_setup_does_not_import_the_lp_solver(tmp_path):
    # the orthant test is a rank test, so building sections needs no LP;
    # a square cone in 3-D has quadrilateral sections, so it also runs the
    # triangulation, which needs no hull code
    spec = tmp_path / "square.spec"
    spec.write_text("dim: 3\nf1: -1*x1 + 2*x2\nf2: -2*x1 - 1*x2\n"
                    "f3: -0.5*x3\ncone1: 1*x1 + 0.5*x3\n"
                    "cone2: -1*x1 + 0.5*x3\ncone3: 1*x2 + 0.5*x3\n"
                    "cone4: -1*x2 + 0.5*x3\n")
    code = ("import sys\n"
            "import lyapcert.cli as cli\n"
            "from lyapcert import cop_lp\n"
            f"spec = cli.parse_spec({str(spec)!r})\n"
            "assert cop_lp.initial_sections(spec.system)\n"
            "print('scipy.optimize' in sys.modules,"
            " 'scipy.spatial' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False False"


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0], A=[[1.0, 2.0]], relations=[LE], b=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0], A=[[1.0]], relations=["<"], b=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(objective=[np.inf], A=[[1.0]], relations=[LE], b=[1.0])


def test_lp_text_dump():
    text = dump_lp_text(box_lp())
    assert text.startswith("Maximize")
    assert "c1:" in text and "Bounds" in text and text.endswith("End\n")
