import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lyapcert import sos_cert
from lyapcert.cli import parse_spec
from lyapcert.errors import NumericalError
from lyapcert.sdpsolve import (SemidefiniteProgram, _nt_frame, _nt_scaling,
                               _tril_inv, dump_sdpa_sparse, solve_sdp)
from reference import max_step

CUSP_BOX_SPEC = Path(__file__).resolve().parents[1] / "specs" / "cusp_box.spec"
BALL_SPEC = """\
dim: 3
f1: -1*x1 + 1*x2
f2: -1*x1 - 1*x2
f3: -1*x3
g1: 1 - x1^2 - x2^2 - x3^2
box1: -1.0 1.0
box2: -1.0 1.0
box3: -1.0 1.0
"""


def sym_unit(n, i, j):
    """Coefficient matrix with <E, X> = X_ij for a symmetric X."""
    E = np.zeros((n, n))
    if i == j:
        E[i, i] = 1.0
    else:
        E[i, j] = E[j, i] = 0.5
    return E


def min_eig_program(A):
    """max t subject to A - t I psd, posed as min -t with Z + t I = A."""
    n = A.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return SemidefiniteProgram(
        A=[np.array([sym_unit(n, i, j) for i, j in pairs])],
        D=np.array([[1.0 if i == j else 0.0] for i, j in pairs]),
        b=np.array([A[i, j] for i, j in pairs]),
        objective_blocks=[np.zeros((n, n))], free_objective=np.array([-1.0]))


def program_without_free(A, b, objective_blocks):
    """min sum <C_b, X_b> subject to sum_b <A_b[i], X_b> = b_i."""
    return SemidefiniteProgram(A=A, D=np.zeros((len(b), 0)), b=b,
                               objective_blocks=objective_blocks,
                               free_objective=np.zeros(0))


def test_trace_minimization():
    sdp = program_without_free([sym_unit(2, 0, 0)[None]], [1.0], [np.eye(2)])
    result = solve_sdp(sdp)
    assert result.status == "solution"
    assert abs(result.primal_objective - 1.0) <= 1e-7
    assert np.allclose(result.blocks[0], np.diag([1.0, 0.0]), atol=1e-7)


def test_min_eigenvalue_diagonal():
    result = solve_sdp(min_eig_program(np.diag([1.0, 2.0])))
    assert result.status == "solution"
    assert abs(result.free[0] - 1.0) <= 1e-8


def test_min_eigenvalue_oracle_random():
    rng = np.random.default_rng(41)
    for _ in range(30):
        Q = rng.standard_normal((6, 6))
        A = 0.5 * (Q + Q.T)
        result = solve_sdp(min_eig_program(A))
        assert result.status == "solution"
        assert abs(result.free[0] - np.linalg.eigvalsh(A).min()) <= 1e-7
        assert result.gap <= 1e-7


def test_solution_blocks_pass_shifted_cholesky():
    rng = np.random.default_rng(42)
    Q = rng.standard_normal((5, 5))
    A = 0.5 * (Q + Q.T)
    result = solve_sdp(min_eig_program(A))
    for X in result.blocks:
        np.linalg.cholesky(X + 1e-7 * np.eye(len(X)))


def test_complementarity_at_termination():
    rng = np.random.default_rng(43)
    Q = rng.standard_normal((4, 4))
    A = 0.5 * (Q + Q.T)
    result = solve_sdp(min_eig_program(A))
    total = sum(float(np.tensordot(X, Z))
                for X, Z in zip(result.blocks, result.dual_blocks))
    assert abs(total) <= 1e-6


def test_equality_residual_tolerance():
    rng = np.random.default_rng(44)
    Q = rng.standard_normal((6, 6))
    result = solve_sdp(min_eig_program(0.5 * (Q + Q.T)))
    assert result.equality_residual <= 1e-8


def test_multi_block_problem():
    # minimize tr(X1) + tr(X2) with X1_00 + X2_00 = 2, each psd
    sdp = program_without_free([sym_unit(2, 0, 0)[None], sym_unit(3, 0, 0)[None]],
                               [2.0], [np.eye(2), np.eye(3)])
    result = solve_sdp(sdp)
    assert result.status == "solution"
    assert abs(result.primal_objective - 2.0) <= 1e-6


def test_infeasible_contradictory_rows():
    sdp = program_without_free([np.array([sym_unit(2, 0, 0)] * 2)],
                               [1.0, 2.0], [np.eye(2)])
    result = solve_sdp(sdp)
    assert result.status == "infeasible"
    assert result.infeasibility_is_heuristic


def test_infeasible_empty_row_is_exact():
    sdp = program_without_free([np.zeros((1, 2, 2))], [1.0], [np.eye(2)])
    result = solve_sdp(sdp)
    assert result.status == "infeasible"
    assert not result.infeasibility_is_heuristic


def test_validation_rejects_asymmetric():
    with pytest.raises(NumericalError,
                       match="objective block 0 is not symmetric"):
        program_without_free([sym_unit(2, 0, 0)[None]], [1.0],
                             [np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_validation_rejects_an_asymmetric_equality_matrix():
    # one asymmetric matrix among the block's rows is enough
    A = np.array([sym_unit(2, 0, 0), [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(NumericalError,
                       match="equality block 0 is not symmetric"):
        program_without_free([A], [1.0, 1.0], [np.eye(2)])


def test_validation_symmetrizes_within_tolerance():
    A = sym_unit(2, 0, 1)[None] + np.array([[0.0, 1e-14], [0.0, 0.0]])
    sdp = program_without_free([A], [1.0], [np.eye(2)])
    assert np.array_equal(sdp.A[0], sdp.A[0].transpose(0, 2, 1))
    assert sdp.A[0][0, 0, 1] == 0.5 + 0.5e-14


def test_sdpa_dump_format():
    sdp = min_eig_program(np.diag([1.0, 2.0]))
    text = dump_sdpa_sparse(sdp)
    lines = text.splitlines()
    assert lines[0] == "3"          # three equalities
    assert lines[1] == "2"          # psd block + free-variable diagonal block
    assert lines[2].split() == ["2", "-2"]
    assert len(lines) > 4


def random_psd(rng, n):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + 1e-2 * np.eye(n)


def random_sym(rng, n):
    Q = rng.standard_normal((n, n))
    return 0.5 * (Q + Q.T)


def test_nt_scaling_identities():
    rng = np.random.default_rng(45)
    for n in (1, 2, 5, 12):
        for _ in range(10):
            X, Z = random_psd(rng, n), random_psd(rng, n)
            R, Rinv, lam = _nt_scaling(X, Z)
            scale = np.abs(lam).max()
            assert np.abs(Rinv @ R - np.eye(n)).max() <= 1e-10
            assert np.abs(Rinv @ X @ Rinv.T - np.diag(lam)).max() <= 1e-10 * scale
            assert np.abs(R.T @ Z @ R - np.diag(lam)).max() <= 1e-10 * scale


def test_nt_step_lengths_match_the_cholesky_bound():
    # X + a dX >= 0 iff diag(lam) + a R^-1 dX R^-T >= 0, and likewise for Z
    # with R^T dZ R; the step lengths in the NT frame must match the bound
    # computed from X and Z themselves
    rng = np.random.default_rng(46)
    clipped = 0
    for n in (1, 2, 5, 12):
        for _ in range(25):
            X, Z = random_psd(rng, n), random_psd(rng, n)
            scal = _nt_scaling(X, Z)
            dX = [rng.uniform(0.1, 10.0) * random_sym(rng, n)]
            dZ = [rng.uniform(0.1, 10.0) * random_sym(rng, n)]
            _, _, alpha_p, alpha_d = _nt_frame([scal], dX, dZ)
            for alpha, ref in ((alpha_p, max_step(X, dX[0])),
                               (alpha_d, max_step(Z, dZ[0]))):
                assert abs(alpha - ref) <= 1e-10 * ref
                clipped += ref < 1.0
    assert clipped >= 100


@pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 253])
def test_triangular_inverse(n):
    # the blocked inverse against LAPACK's general one, at the base case
    # size 32, either side of it, and the Schur size of the ball at deg 6
    rng = np.random.default_rng(n)
    L = np.linalg.cholesky(random_psd(rng, n) / n + np.eye(n))
    Linv = _tril_inv(L.copy())
    assert np.abs(L @ Linv - np.eye(n)).max() <= 1e-12
    assert np.abs(Linv - np.linalg.inv(L)).max() <= 1e-12


def mixed_block_program(sizes, m=9, seed=47):
    """A strictly feasible primal-dual pair over blocks of the given sizes,
    with one free variable; block b's equalities touch a random third of
    the m rows."""
    rng = np.random.default_rng(seed)
    A = []
    for s in sizes:
        Ab = np.array([random_sym(rng, s) for _ in range(m)])
        Ab[rng.permutation(m)[:2 * m // 3]] = 0.0
        A.append(Ab)
    D = rng.standard_normal((m, 1))
    X0 = [random_psd(rng, s) for s in sizes]
    y0 = rng.standard_normal(m)
    b = sum(np.tensordot(Ab, Xb) for Ab, Xb in zip(A, X0)) + D @ [0.3]
    C = [random_psd(rng, s) + np.tensordot(y0, Ab, axes=1)
         for s, Ab in zip(sizes, A)]
    return A, D, b, C, D.T @ y0


def test_mixed_block_sizes_come_back_in_input_order():
    # blocks of size 3 and of size 1 are each stepped as one stack; the
    # result lists every block where the input had it, and the same problem
    # with its blocks permuted gives the same blocks
    sizes = [3, 1, 3, 2, 1]
    A, D, b, C, c = mixed_block_program(sizes)
    result = solve_sdp(SemidefiniteProgram(A=A, D=D, b=b,
                                           objective_blocks=C,
                                           free_objective=c))
    assert result.status == "solution"
    assert [X.shape for X in result.blocks] == [(s, s) for s in sizes]
    assert [Z.shape for Z in result.dual_blocks] == [(s, s) for s in sizes]
    perm = [4, 2, 0, 3, 1]
    permuted = solve_sdp(SemidefiniteProgram(
        A=[A[i] for i in perm], D=D, b=b,
        objective_blocks=[C[i] for i in perm], free_objective=c))
    assert permuted.status == "solution"
    for pos, i in enumerate(perm):
        assert np.abs(permuted.blocks[pos] - result.blocks[i]).max() <= 1e-9
        assert np.abs(permuted.dual_blocks[pos]
                      - result.dual_blocks[i]).max() <= 1e-9
    assert np.abs(permuted.free - result.free).max() <= 1e-9
    assert np.abs(permuted.duals - result.duals).max() <= 1e-9


@pytest.mark.parametrize("spec, deg, most", [
    pytest.param("cusp", 2, 9, id="2"), pytest.param("cusp", 6, 10, id="6"),
    pytest.param("ball", 4, 9, id="ball-4"),
    pytest.param("ball", 6, 9, id="ball-6")])
def test_cusp_box_iterations_do_not_rise(spec, deg, most, monkeypatch,
                                         tmp_path):
    # the counts with the Gram monomials that the equalities force to zero
    # pruned and a zero objective on the Grams; the certificate comes from
    # the first SDP
    path = CUSP_BOX_SPEC
    if spec == "ball":
        path = tmp_path / "ball.spec"
        path.write_text(BALL_SPEC)
    iterations = []

    def counted(sdp, **kwargs):
        result = solve_sdp(sdp, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(sos_cert, "solve_sdp", counted)
    outcome = sos_cert.solve_certificate(parse_spec(path).system, deg,
                                         tier="sdp")
    assert outcome.status == "certificate"
    assert iterations and iterations[0] <= most


def test_sdp_tier_does_not_import_scipy(tmp_path):
    # the SDP tier is numpy-only; scipy would add its import time and
    # memory to every SOS search
    code = ("import sys\n"
            "from lyapcert.cli import main\n"
            f"code = main(['find-lyap-sos', {str(CUSP_BOX_SPEC)!r}, '--deg',"
            f" '2', '--tier', 'sdp', '--out', {str(tmp_path / 'o')!r}])\n"
            "print(code, 'scipy' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "0 False"
